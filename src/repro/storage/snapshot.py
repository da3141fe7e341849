"""Crash-safe shard snapshots: checksummed, atomic, verifiable.

A snapshot persists everything a fitted
:class:`~repro.core.sharding.ShardedSearcher` needs to serve again after a
process restart: every per-shard engine (with its programmed arrays and
frozen calibration state), every index map, the retained store of
appendable searchers, the label vector, and a ``manifest.json`` recording
per-file sizes and CRC-32s plus the searcher's append sequence number and
epoch counter.

Layout under the snapshot directory::

    manifest.json       <- atomic (tmp + os.replace + fsync), written LAST
    journal.wal         <- the append journal (see :mod:`.journal`)
    snap-<id>/          <- one immutable snapshot generation
        shard-<i>.pkl   <- spool-pickle format (RSPL magic + CRC header)
        store.pkl       <- retained features/labels payload

Each data file uses the spool-pickle format
(:func:`~repro.runtime.transport.write_spool_pickle`), whose own CRC frame
:func:`~repro.runtime.transport.load_pickle_spool_bytes` checks on top of
the manifest's CRC — one CRC idiom across the tier.
The generation directory is staged under a ``.tmp`` name and renamed into
place before the manifest flips to it, so a crash at any point leaves
either the previous complete snapshot or none; readers trust only what
the manifest references and every referenced byte is checksummed.
"""

from __future__ import annotations

import os
import shutil
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..circuits.mcam_array import preserve_search_caches
from ..exceptions import SnapshotIntegrityError, SpoolIntegrityError
from ..runtime.transport import load_pickle_spool_bytes, write_spool_pickle
from ..utils.io import load_json, save_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.search import NearestNeighborSearcher
    from ..core.sharding import ShardedSearcher

__all__ = [
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "SnapshotState",
    "load_snapshot",
    "load_snapshot_shard",
    "write_snapshot",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.wal"
_SNAPSHOT_FORMAT = 1
_STORE_FILE = "store.pkl"


@dataclass
class SnapshotState:
    """A fully verified snapshot, loaded and ready to install."""

    manifest: Dict[str, Any]
    shards: List[Tuple["NearestNeighborSearcher", np.ndarray]]
    features: Optional[np.ndarray]
    labels: Optional[np.ndarray]


def _file_crc32(path: str) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                return crc & 0xFFFFFFFF
            crc = zlib.crc32(chunk, crc)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _next_snapshot_id(directory: str) -> int:
    """One past the newest generation visible on disk or in the manifest."""
    newest = -1
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        try:
            manifest = load_json(manifest_path)
            newest = int(manifest.get("snapshot_id", -1))
        except (OSError, ValueError):
            pass  # unreadable manifest: fall back to the directory scan
    for name in os.listdir(directory):
        stem = name[:-4] if name.endswith(".tmp") else name
        if stem.startswith("snap-"):
            try:
                newest = max(newest, int(stem[len("snap-") :]))
            except ValueError:
                continue
    return newest + 1


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
    # Snapshots keep the engines' derived search caches: transport spools
    # strip them to stay lean on the wire, but a snapshot taken from a
    # query-warmed process restores warm — reading the caches back is far
    # cheaper than the first query rebuilding them.
    with preserve_search_caches():
        for index, (engine, index_map, epoch) in enumerate(shard_states):
            filename = f"shard-{index}.pkl"
            shard_path = os.path.join(staging, filename)
            write_spool_pickle(shard_path, (engine, index_map), fsync=True)
            shard_entries.append(
                {
                    "file": filename,
                    "bytes": os.path.getsize(shard_path),
                    "crc32": _file_crc32(shard_path),
                    "epoch": int(epoch),
                    "entries": int(engine.num_entries),
                }
            )
    store_path = os.path.join(staging, _STORE_FILE)
    write_spool_pickle(
        store_path,
        {"features": searcher._store_features, "labels": searcher._labels},
        fsync=True,
    )
    store_entry = {
        "file": _STORE_FILE,
        "bytes": os.path.getsize(store_path),
        "crc32": _file_crc32(store_path),
    }

    final_dir = os.path.join(directory, generation)
    os.rename(staging, final_dir)
    _fsync_dir(directory)

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


def _load_manifest(directory: str) -> Dict[str, Any]:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise SnapshotIntegrityError(f"no snapshot manifest at {manifest_path}")
    try:
        manifest = load_json(manifest_path)
    except (OSError, ValueError) as exc:
        raise SnapshotIntegrityError(f"snapshot manifest unreadable at {manifest_path}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _SNAPSHOT_FORMAT:
        raise SnapshotIntegrityError(f"snapshot manifest malformed at {manifest_path}")
    return manifest


def _verified_payload(snap_dir: str, entry: Dict[str, Any]) -> Any:
    """Load one manifest-referenced file, enforcing its size and CRC.

    Single-pass: the file is read once, checksummed whole against the
    manifest, then unpickled straight from the buffer — the frame's own
    CRC covers the same bytes and is skipped (restore latency is the
    warm-restart budget; every byte is still verified exactly once).
    """
    path = os.path.join(snap_dir, entry["file"])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotIntegrityError(f"snapshot file missing at {path}") from exc
    if len(data) != entry["bytes"] or (zlib.crc32(data) & 0xFFFFFFFF) != entry["crc32"]:
        raise SnapshotIntegrityError(f"snapshot file corrupt at {path} (checksum mismatch)")
    try:
        return load_pickle_spool_bytes(data, path, checksummed=False)
    except SpoolIntegrityError as exc:
        raise SnapshotIntegrityError(f"snapshot file corrupt at {path}: {exc}") from exc


def load_snapshot(directory: str) -> SnapshotState:
    """Load and fully verify the snapshot referenced by the manifest.

    Every file is checked against its manifest size and CRC-32 and then
    against the spool header it carries; any mismatch — including a
    missing manifest or a calibration fingerprint that moved — raises
    :class:`~repro.exceptions.SnapshotIntegrityError`.  Partial state is
    never returned.
    """
    directory = os.fspath(directory)
    manifest = _load_manifest(directory)
    snap_dir = os.path.join(directory, str(manifest["snapshot_dir"]))
    shards: List[Tuple["NearestNeighborSearcher", np.ndarray]] = []
    for entry in manifest["shards"]:
        engine, index_map = _verified_payload(snap_dir, entry)
        shards.append((engine, np.asarray(index_map, dtype=np.int64)))
    if not shards:
        raise SnapshotIntegrityError(f"snapshot at {directory} references no shards")
    store = _verified_payload(snap_dir, manifest["store"])
    fingerprint = shards[0][0].calibration_fingerprint()
    if fingerprint != manifest.get("calibration_fingerprint"):
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


def load_snapshot_shard(directory: str, shard_index: int) -> Any:
    """Load one verified ``(engine, index_map)`` shard payload by index.

    The executor's restore-from-disk rung: when a published spool entry is
    lost and no parent-resident payload exists (a fresh process after a
    restart), the shard is reloaded straight from the snapshot.
    """
    directory = os.fspath(directory)
    manifest = _load_manifest(directory)
    wanted = f"shard-{shard_index}.pkl"
    for entry in manifest["shards"]:
        if entry["file"] == wanted:
            return _verified_payload(os.path.join(directory, str(manifest["snapshot_dir"])), entry)
    raise SnapshotIntegrityError(
        f"snapshot at {directory} holds no shard {shard_index} "
        f"({len(manifest['shards'])} shards recorded)"
    )
