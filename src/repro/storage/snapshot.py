"""Crash-safe shard snapshots: checksummed, atomic, verifiable.

A snapshot persists everything a fitted
:class:`~repro.core.sharding.ShardedSearcher` needs to serve again after a
process restart: every per-shard engine (with its programmed arrays and
frozen calibration state), every index map, the retained store of
appendable searchers, the label vector, and a ``manifest.json`` recording
each file's CRC-32 plus the searcher's append sequence number and epoch
counter.

Layout under the snapshot directory::

    manifest.json       <- atomic (tmp + os.replace + fsync), written LAST
    journal.wal         <- the append journal (see :mod:`.journal`)
    snap-<id>/          <- one immutable snapshot generation
        shard-<i>.pkl   <- one ``(engine, index_map)`` frame per shard
        store.pkl       <- retained features/labels frame

Each data file is one checksummed frame of
:func:`~repro.runtime.transport.encode_frame` (a shard's file is byte for
byte the spool entry the runtime would publish for it), and the manifest
records the frame's own CRC-32, so each byte keeps one checksum.  A
generation is written into a ``.tmp`` staging directory (one write and
one fsync per file, one fsync of the directory) and renamed into place
before the manifest flips to it, so a crash at any point leaves either
the previous complete snapshot or none; readers trust
only what the manifest references.  A manifest of another format than
this module writes (format 1 framed files with a header of their own,
format 2 held bare pickles), or one with a field missing or of the wrong
JSON type, is refused before any file is read.  :func:`load_snapshot`
reads a whole generation at once, for
:meth:`~repro.core.sharding.ShardedSearcher.restore`; nothing reads one
shard back on its own.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import SnapshotIntegrityError
from ..runtime.transport import encode_frame, load_snapshot_file
from ..utils.io import fsync_directory, load_json, save_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.search import NearestNeighborSearcher
    from ..core.sharding import ShardedSearcher

__all__ = [
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "SnapshotState",
    "load_snapshot",
    "write_snapshot",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.wal"
_SNAPSHOT_FORMAT = 3
_STORE_FILE = "store.pkl"

#: Every field of a manifest and of its file entries, with its JSON types;
#: checked with ``type(...) in`` so a JSON boolean is never taken for a count.
_MANIFEST_FIELDS: Dict[str, Tuple[type, ...]] = {
    "format": (int,),
    "kind": (str,),
    "snapshot_id": (int,),
    "snapshot_dir": (str,),
    "applied_seq": (int,),
    "num_entries": (int,),
    "num_features": (int,),
    "appendable": (bool,),
    "requested_shards": (int, type(None)),
    "max_rows_per_array": (int, type(None)),
    "epoch_counter": (int,),
    "calibration_fingerprint": (str, type(None)),
    "shards": (list,),
    "store": (dict,),
}
_FILE_FIELDS: Dict[str, Tuple[type, ...]] = {"file": (str,), "crc32": (int,)}
_SHARD_FIELDS = dict(_FILE_FIELDS, epoch=(int,), entries=(int,))


@dataclass
class SnapshotState:
    """A fully verified snapshot, loaded and ready to install."""

    manifest: Dict[str, Any]
    shards: List[Tuple["NearestNeighborSearcher", np.ndarray]]
    features: Optional[np.ndarray]
    labels: Optional[np.ndarray]


def _next_snapshot_id(directory: str) -> int:
    """One past the newest generation visible on disk or in the manifest."""
    try:
        newest: int = _load_manifest(directory)["snapshot_id"]
    except SnapshotIntegrityError:
        newest = -1  # no readable manifest: the directory scan decides
    for name in os.listdir(directory):
        stem = name[:-4] if name.endswith(".tmp") else name
        if stem.startswith("snap-"):
            try:
                newest = max(newest, int(stem[len("snap-") :]))
            except ValueError:
                continue
    return newest + 1


def _write_file(staging: str, name: str, payload: Any) -> Dict[str, Any]:
    """Write ``payload`` as the one frame of ``name`` in ``staging``; return its entry.

    One write and one fsync; the caller renames the staging directory into place.
    """
    pieces, crc = encode_frame(payload)
    with open(os.path.join(staging, name), "wb") as fh:
        fh.writelines(pieces)
        fh.flush()
        os.fsync(fh.fileno())
    return {"file": name, "crc32": crc}


def write_snapshot(
    searcher: "ShardedSearcher",
    directory: str,
    applied_seq: int,
    fault_injector: Optional[Any] = None,
) -> str:
    """Persist ``searcher``'s fitted state as a new snapshot generation.

    The generation is staged in a ``.tmp`` sibling, fsync'd, renamed into
    place, and only then referenced by an atomically replaced manifest —
    the point of no return.  Older generations are deleted afterwards.
    Returns the generation directory path.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    snapshot_id = _next_snapshot_id(directory)
    generation = f"snap-{snapshot_id}"
    staging = os.path.join(directory, f"{generation}.tmp")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)

    shard_entries: List[Dict[str, Any]] = []
    shard_states = zip(searcher._shards, searcher._index_maps, searcher._shard_epochs)
    for index, (engine, index_map, epoch) in enumerate(shard_states):
        entry = _write_file(staging, f"shard-{index}.pkl", (engine, index_map))
        entry.update(epoch=int(epoch), entries=int(engine.num_entries))
        shard_entries.append(entry)
    store_entry = _write_file(
        staging,
        _STORE_FILE,
        {"features": searcher._store_features, "labels": searcher._labels},
    )
    fsync_directory(staging)
    final_dir = os.path.join(directory, generation)
    os.rename(staging, final_dir)
    fsync_directory(directory)

    manifest = {
        "format": _SNAPSHOT_FORMAT,
        "kind": "sharded-searcher",
        "snapshot_id": snapshot_id,
        "snapshot_dir": generation,
        "applied_seq": int(applied_seq),
        "num_entries": int(searcher._num_entries),
        "num_features": int(searcher._num_features),
        "appendable": bool(searcher.appendable),
        "requested_shards": searcher.requested_shards,
        "max_rows_per_array": searcher.max_rows_per_array,
        "epoch_counter": int(searcher._epoch_counter),
        "calibration_fingerprint": searcher._shards[0].calibration_fingerprint(),
        "shards": shard_entries,
        "store": store_entry,
    }
    save_json(manifest, os.path.join(directory, MANIFEST_NAME), fsync=True)

    for name in os.listdir(directory):
        if name == generation or not name.startswith("snap-"):
            continue
        shutil.rmtree(os.path.join(directory, name), ignore_errors=True)

    if fault_injector is not None:
        fault_injector.fire("snapshot", None, path=directory)
    return final_dir


def _has_fields(record: Any, fields: Dict[str, Tuple[type, ...]]) -> bool:
    return isinstance(record, dict) and all(
        field in record and type(record[field]) in kinds for field, kinds in fields.items()
    )


def _load_manifest(directory: str) -> Dict[str, Any]:
    """The manifest, of this module's format, with every field of its JSON type."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        manifest = load_json(manifest_path)
    except (OSError, ValueError) as exc:
        raise SnapshotIntegrityError(f"no readable snapshot manifest at {manifest_path}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotIntegrityError(f"snapshot manifest malformed at {manifest_path}")
    if manifest.get("format") != _SNAPSHOT_FORMAT:
        raise SnapshotIntegrityError(
            f"snapshot manifest at {manifest_path} has format {manifest.get('format')!r}; "
            f"this version reads format {_SNAPSHOT_FORMAT} only"
        )
    if not (
        _has_fields(manifest, _MANIFEST_FIELDS)
        and _has_fields(manifest["store"], _FILE_FIELDS)
        and all(_has_fields(entry, _SHARD_FIELDS) for entry in manifest["shards"])
    ):
        raise SnapshotIntegrityError(
            f"snapshot manifest malformed at {manifest_path} (a field is missing or mistyped)"
        )
    return manifest


def load_snapshot(directory: str) -> SnapshotState:
    """Load and fully verify the snapshot referenced by the manifest.

    Every file's frame is checked, and its CRC-32 held against the
    manifest's, before it is unpickled; any mismatch — including a missing
    manifest, a manifest of another format or a calibration fingerprint
    that moved — raises :class:`~repro.exceptions.SnapshotIntegrityError`.
    Partial state is never returned.
    """
    directory = os.fspath(directory)
    manifest = _load_manifest(directory)
    snap_dir = os.path.join(directory, manifest["snapshot_dir"])
    shards: List[Tuple["NearestNeighborSearcher", np.ndarray]] = []
    for entry in manifest["shards"]:
        path = os.path.join(snap_dir, entry["file"])
        engine, index_map = load_snapshot_file(path, entry["crc32"])
        shards.append((engine, np.asarray(index_map, dtype=np.int64)))
    if not shards:
        raise SnapshotIntegrityError(f"snapshot at {directory} references no shards")
    store_entry = manifest["store"]
    store = load_snapshot_file(os.path.join(snap_dir, store_entry["file"]), store_entry["crc32"])
    fingerprint = shards[0][0].calibration_fingerprint()
    if fingerprint != manifest["calibration_fingerprint"]:
        raise SnapshotIntegrityError(
            f"snapshot at {directory} restored a different calibration state "
            f"than it recorded"
        )
    return SnapshotState(
        manifest=manifest,
        shards=shards,
        features=store["features"],
        labels=store["labels"],
    )
