"""Result export helpers (CSV / JSON).

Experiment drivers return plain dataclasses and dictionaries; these helpers
persist them so EXPERIMENTS.md entries and downstream plotting scripts can be
regenerated without re-running the experiments.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np

PathLike = Union[str, Path]


def to_jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and dataclasses to JSON types."""
    if is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(asdict(value))
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def fsync_directory(directory: PathLike) -> None:
    """fsync a directory so a just-created or renamed entry survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_json(data: Any, path: PathLike, indent: int = 2, fsync: bool = False) -> Path:
    """Serialize ``data`` (dataclasses/dicts/arrays allowed) to a JSON file.

    The file is written to a ``.tmp`` sibling and atomically renamed into
    place, so readers never observe truncated JSON — a crash mid-write
    leaves either the previous file or none.  ``fsync=True`` additionally
    flushes the file and its directory entry before returning, which is
    what snapshot manifests require for crash safety.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(data), handle, indent=indent, sort_keys=False)
        handle.write("\n")
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if fsync:
        fsync_directory(path.parent)
    return path


def load_json(path: PathLike) -> Any:
    """Load a JSON file previously written with :func:`save_json`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save_csv(records: Sequence[Mapping[str, Any]], path: PathLike) -> Path:
    """Write a list of dict records to a CSV file, atomically.

    The union of all record keys (in first-seen order) becomes the header.
    Like :func:`save_json`, the file lands via tmp-write + ``os.replace``
    so a crash mid-export cannot leave a truncated table behind.
    """
    records = [dict(to_jsonable(record)) for record in records]
    if not records:
        raise ValueError("cannot write an empty list of records to CSV")
    columns: list = []
    for record in records:
        for key in record:
            if key not in columns:
                columns.append(key)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for record in records:
            writer.writerow({column: record.get(column, "") for column in columns})
    os.replace(tmp_path, path)
    return path


def load_csv(path: PathLike) -> list:
    """Read a CSV file into a list of string-valued dict records."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return [dict(row) for row in reader]
