"""Field and grid serialization.

A field is stored as a pair of files sharing one base path: a JSON header
``<base>.json`` (grid metadata, face roles, array layout) and the raw
row-major samples ``<base>.npy``.  Loading restores the field bit-exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

from .energy import ScalarField
from .grid import grid_from_dict, grid_to_dict, roles_from_dict, roles_to_dict

__all__ = ["save_field", "load_field"]

FORMAT = "phaselab-field-2"     # face roles hold no face values


def write_hashed(path: str, *chunks) -> str:
    """Write the byte chunks (bytes or C-contiguous buffers) to path, in
    order; returns the SHA-256 hex digest of what was written, hashed from
    memory instead of read back from disk."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def save_field(field: ScalarField, base_path: str) -> dict[str, str]:
    """Write ``<base>.json`` + ``<base>.npy``; returns ``{path: SHA-256 hex
    digest}`` of the files written, in that order."""
    header = {
        "format": FORMAT,
        "grid": grid_to_dict(field.grid),
        "faces": roles_to_dict(field.roles),
        "layout": {"order": "C", "dtype": "float64"},
    }
    json_path = base_path + ".json"
    npy_path = base_path + ".npy"
    os.makedirs(os.path.dirname(os.path.abspath(json_path)), exist_ok=True)
    text = json.dumps(header, indent=2, sort_keys=True) + "\n"
    values = np.ascontiguousarray(field.values, dtype=np.float64)
    # the bytes np.save writes: a version 1.0 header, then the raw samples
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, np.lib.format.header_data_from_array_1_0(values))
    return {json_path: write_hashed(json_path, text.encode("ascii")),
            npy_path: write_hashed(npy_path, head.getvalue(),
                                   memoryview(values).cast("B"))}


def load_field(base_path: str) -> ScalarField:
    with open(base_path + ".json") as fh:
        header = json.load(fh)
    if header.get("format") != FORMAT:
        raise ValueError(f"unrecognized field file format in {base_path}.json")
    grid = grid_from_dict(header["grid"])
    roles = roles_from_dict(header["faces"])
    values = np.load(base_path + ".npy")
    return ScalarField(grid, values, roles)
