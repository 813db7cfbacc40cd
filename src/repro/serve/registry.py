"""Versioned on-disk model registry.

A *snapshot* bundles the trained per-VM pipelines of one controller —
discretizer bins, per-attribute Markov transition counts, TAN/naive
structure + CPTs — into a single canonical-JSON document plus a
manifest carrying its SHA-256 content hash.  Snapshots are immutable:
saving under an existing name allocates the next version directory
(``<root>/<name>/v0001``, ``v0002``, ...), and :meth:`ModelRegistry.load`
refuses any snapshot whose bytes no longer match the recorded hash.

Schema 2 stores every array as packed raw bytes inside the document
(:mod:`repro.core.arrays`: dtype, shape and base64 of the
little-endian bytes), so a load decodes base64 instead of parsing one
JSON float per element.  Canonical JSON (sorted keys, no whitespace)
makes the hash a pure function of model content, and because the
packed bytes are the arrays' own, restore is bitwise and restore →
re-snapshot reproduces the original bytes: ``serve_check.py`` asserts
this end to end.  A schema-1 (float-list) snapshot is refused with a
hint to re-save the fleet; there is no schema-1 reader.

A load verifies the whole document (hash, schema, VM list) but
restores only the VMs it is asked for, so a fabric worker pays for its
own shard; :meth:`ModelRegistry.describe` reads each VM's attribute
count and history length from the verified document and restores
nothing, which is all the fabric's router needs.  Only
:meth:`ModelRegistry.load` imports the model classes (and with them
numpy), so a process that only describes snapshots never does.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.predictor import AnomalyPredictor

__all__ = [
    "CHAIN_HISTORY",
    "ModelRegistry",
    "RegistryError",
    "SnapshotIntegrityError",
    "SnapshotInfo",
    "ActiveInfo",
    "SCHEMA_VERSION",
]

#: Bumped whenever the snapshot document layout changes.
SCHEMA_VERSION = 2

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_SNAPSHOT_FILE = "snapshot.json"
_MANIFEST_FILE = "manifest.json"
_ACTIVE_FILE = "active.json"

_MANIFEST_KEYS = frozenset(
    {"schema", "name", "version", "created_at", "sha256", "n_vms", "vms"}
)

#: ``history_needed`` of each chain variant a snapshot's ``"markov"``
#: field may name: the chain classes of
#: :data:`repro.core.predictor.MARKOV_CHAINS`, as plain numbers so that
#: :meth:`ModelRegistry.describe` needs no model class.
CHAIN_HISTORY: Dict[str, int] = {"2dep": 2, "simple": 1}


class RegistryError(RuntimeError):
    """A snapshot could not be saved, found, or parsed."""


class SnapshotIntegrityError(RegistryError):
    """Snapshot bytes do not match the manifest's content hash."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Manifest summary of one stored snapshot version."""

    name: str
    version: int
    created_at: str
    sha256: str
    n_vms: int
    vms: tuple
    path: Path

    @property
    def version_label(self) -> str:
        return f"v{self.version:04d}"


@dataclass(frozen=True)
class ActiveInfo:
    """The champion pointer of one model name.

    ``version`` is the version currently served; ``previous`` retains
    the champion that was displaced by the last promotion, which is
    what :meth:`ModelRegistry.rollback` restores — instantly, because
    both versions stay immutable on disk.
    """

    name: str
    version: int
    previous: Optional[int]
    promoted_at: str


def canonical_json(payload: Dict) -> str:
    """Canonical serialization: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class ModelRegistry:
    """Versioned, schema-checked store of per-VM pipeline snapshots."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(
        self,
        name: str,
        predictors: Dict[str, AnomalyPredictor],
        created_at: Optional[str] = None,
    ) -> SnapshotInfo:
        """Store ``predictors`` as the next version under ``name``.

        ``created_at`` defaults to the current UTC time; pass an
        explicit ISO timestamp for reproducible snapshots.
        """
        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid snapshot name {name!r} (want [A-Za-z0-9._-])"
            )
        if not predictors:
            raise RegistryError("refusing to save an empty snapshot")
        for vm, predictor in predictors.items():
            if not predictor.trained:
                raise RegistryError(f"predictor for VM {vm!r} is not trained")
        if created_at is None:
            created_at = datetime.now(timezone.utc).isoformat()
        version = (self.versions(name)[-1] + 1) if self.versions(name) else 1
        payload = {
            "schema": SCHEMA_VERSION,
            "name": name,
            "version": version,
            "created_at": created_at,
            "vms": {
                vm: predictors[vm].to_dict() for vm in sorted(predictors)
            },
        }
        document = canonical_json(payload)
        manifest = {
            "schema": SCHEMA_VERSION,
            "name": name,
            "version": version,
            "created_at": created_at,
            "sha256": content_hash(document),
            "n_vms": len(predictors),
            "vms": sorted(predictors),
        }
        vdir = self.root / name / f"v{version:04d}"
        vdir.mkdir(parents=True, exist_ok=False)
        (vdir / _SNAPSHOT_FILE).write_text(document, encoding="utf-8")
        (vdir / _MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return self._info_from_manifest(manifest, vdir)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(
        self,
        name: str,
        version: Optional[int] = None,
        vms: Optional[Iterable[str]] = None,
    ) -> Dict[str, AnomalyPredictor]:
        """Restore the pipelines of ``name`` (latest version by default).

        Verifies the content hash, the schema and the VM list of the
        whole document, then restores only the VMs named in ``vms``
        (every VM when None), in snapshot order.  Raises
        :class:`SnapshotIntegrityError` on a hash or VM-list mismatch
        and :class:`RegistryError` on missing/malformed snapshots or
        when ``vms`` names a VM the snapshot lacks.
        """
        from repro.core.predictor import AnomalyPredictor

        info = self.info(name, version)
        blobs = self._read_vms(info)
        if vms is not None:
            wanted = set(vms)
            missing = wanted.difference(blobs)
            if missing:
                raise RegistryError(
                    f"snapshot {name} v{info.version} lacks VMs "
                    f"{sorted(missing)}"
                )
            blobs = {vm: b for vm, b in blobs.items() if vm in wanted}
        out: Dict[str, AnomalyPredictor] = {}
        for vm, blob in blobs.items():
            try:
                out[vm] = AnomalyPredictor.from_dict(blob)
            except (KeyError, TypeError, ValueError) as exc:
                raise RegistryError(
                    f"snapshot {info.path / _SNAPSHOT_FILE}: VM {vm!r} "
                    f"does not restore: {exc}"
                ) from None
        return out

    def describe(
        self, name: str, version: Optional[int] = None
    ) -> Dict[str, Tuple[int, int]]:
        """``{vm: (n_attributes, history_needed)}`` of one snapshot.

        Runs :meth:`load`'s verification of the whole document but
        restores no predictor: both numbers come from each VM's
        ``attributes`` and ``markov`` fields (the latter through
        :data:`CHAIN_HISTORY`).
        """
        info = self.info(name, version)
        out: Dict[str, Tuple[int, int]] = {}
        for vm, blob in self._read_vms(info).items():
            try:
                attributes = blob["attributes"]
                history = CHAIN_HISTORY[blob["markov"]]
                if not isinstance(attributes, list) or not attributes:
                    raise ValueError("attributes must be a non-empty list")
            except (KeyError, TypeError, ValueError) as exc:
                raise RegistryError(
                    f"snapshot {info.path / _SNAPSHOT_FILE}: VM {vm!r} "
                    f"has no valid attributes/markov: {exc!r}"
                ) from None
            out[vm] = (len(attributes), history)
        return out

    def load_active(self, name: str) -> Dict[str, AnomalyPredictor]:
        """Restore the *champion* version of ``name``.

        The champion is whatever :meth:`promote` last pointed at;
        names that were never explicitly promoted fall back to the
        latest version (backward compatible with pre-pointer layouts).
        """
        active = self.active_info(name)
        return self.load(name, active.version if active else None)

    # ------------------------------------------------------------------
    # Champion pointer (promote / rollback)
    # ------------------------------------------------------------------
    def promote(
        self,
        name: str,
        version: int,
        promoted_at: Optional[str] = None,
    ) -> ActiveInfo:
        """Point the champion of ``name`` at ``version``.

        Verifies the target version exists and its snapshot bytes
        still match the manifest hash before moving the pointer — a
        corrupt challenger must never become the champion.  The
        displaced champion (if any) is retained as ``previous`` so
        :meth:`rollback` can restore it instantly.
        """
        info = self.info(name, version)  # raises on unknown version
        self._read_document(info)  # raises SnapshotIntegrityError if corrupt
        if promoted_at is None:
            promoted_at = datetime.now(timezone.utc).isoformat()
        current = self.active_info(name)
        previous = current.version if current else None
        if previous == version:
            previous = current.previous if current else None
        active = ActiveInfo(
            name=name,
            version=version,
            previous=previous,
            promoted_at=promoted_at,
        )
        self._write_active(active)
        return active

    def rollback(self, name: str) -> ActiveInfo:
        """Restore the previously displaced champion of ``name``.

        Raises :class:`RegistryError` when there is nothing to roll
        back to (no pointer, or no promotion ever displaced one).
        """
        current = self.active_info(name)
        if current is None or current.previous is None:
            raise RegistryError(
                f"model {name!r} has no previous champion to roll back to"
            )
        return self.promote(name, current.previous)

    def active_info(self, name: str) -> Optional[ActiveInfo]:
        """The champion pointer of ``name``, or None if never promoted."""
        path = self.root / name / _ACTIVE_FILE
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(
                f"cannot read active pointer {path}: {exc}"
            ) from None
        if not isinstance(payload, dict) or "version" not in payload:
            raise RegistryError(f"active pointer {path} is malformed")
        previous = payload.get("previous")
        return ActiveInfo(
            name=name,
            version=int(payload["version"]),
            previous=None if previous is None else int(previous),
            promoted_at=str(payload.get("promoted_at", "")),
        )

    def active_version(self, name: str) -> Optional[int]:
        """Champion version number of ``name``, or None if never promoted."""
        active = self.active_info(name)
        return active.version if active else None

    def _write_active(self, active: ActiveInfo) -> None:
        path = self.root / active.name / _ACTIVE_FILE
        payload = {
            "name": active.name,
            "version": active.version,
            "previous": active.previous,
            "promoted_at": active.promoted_at,
        }
        path.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    def _read_document(self, info: SnapshotInfo) -> str:
        snap_path = info.path / _SNAPSHOT_FILE
        try:
            document = snap_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise RegistryError(f"cannot read {snap_path}: {exc}") from None
        digest = content_hash(document)
        if digest != info.sha256:
            raise SnapshotIntegrityError(
                f"snapshot {snap_path} is corrupt: sha256 {digest} != "
                f"manifest {info.sha256}"
            )
        return document

    def _read_vms(self, info: SnapshotInfo) -> Dict[str, Dict]:
        """The verified ``vms`` mapping of one snapshot document."""
        snap_path = info.path / _SNAPSHOT_FILE
        document = self._read_document(info)
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"snapshot {snap_path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            raise RegistryError(
                f"snapshot {snap_path}: unsupported schema "
                f"{payload.get('schema') if isinstance(payload, dict) else payload!r} "
                f"(want {SCHEMA_VERSION}); re-save the fleet with this "
                f"version (train it and ModelRegistry.save) to load it"
            )
        vms = payload.get("vms")
        if not isinstance(vms, dict) or sorted(vms) != list(info.vms):
            raise SnapshotIntegrityError(
                f"snapshot {snap_path}: VM list does not match the manifest"
            )
        return vms

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and self.versions(p.name)
        )

    def versions(self, name: str) -> List[int]:
        """Stored version numbers for ``name``, ascending."""
        base = self.root / name
        if not base.is_dir():
            return []
        out = []
        for p in base.iterdir():
            m = re.match(r"^v(\d{4,})$", p.name)
            if m and (p / _MANIFEST_FILE).is_file():
                out.append(int(m.group(1)))
        return sorted(out)

    def info(self, name: str, version: Optional[int] = None) -> SnapshotInfo:
        """Manifest summary of one version (latest by default)."""
        versions = self.versions(name)
        if not versions:
            raise RegistryError(f"no snapshots under {self.root / name}")
        if version is None:
            version = versions[-1]
        if version not in versions:
            raise RegistryError(
                f"snapshot {name!r} has no version {version} "
                f"(stored: {versions})"
            )
        vdir = self.root / name / f"v{version:04d}"
        manifest_path = vdir / _MANIFEST_FILE
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(
                f"cannot read manifest {manifest_path}: {exc}"
            ) from None
        if (
            not isinstance(manifest, dict)
            or not _MANIFEST_KEYS.issubset(manifest)
        ):
            raise RegistryError(
                f"manifest {manifest_path} is missing required keys "
                f"{sorted(_MANIFEST_KEYS - set(manifest or ()))}"
            )
        return self._info_from_manifest(manifest, vdir)

    def list(self) -> List[SnapshotInfo]:
        """Every stored snapshot, ordered by (name, version)."""
        out: List[SnapshotInfo] = []
        for name in self.names():
            for version in self.versions(name):
                out.append(self.info(name, version))
        return out

    @staticmethod
    def _info_from_manifest(manifest: Dict, vdir: Path) -> SnapshotInfo:
        return SnapshotInfo(
            name=str(manifest["name"]),
            version=int(manifest["version"]),
            created_at=str(manifest["created_at"]),
            sha256=str(manifest["sha256"]),
            n_vms=int(manifest["n_vms"]),
            vms=tuple(str(vm) for vm in manifest["vms"]),
            path=vdir,
        )
