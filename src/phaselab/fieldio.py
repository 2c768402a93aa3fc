"""Field and grid serialization; this module owns the field-file format.

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
from .grid import Dirichlet, Grid, NeumannZero

__all__ = ["save_field", "load_field"]

FORMAT = "phaselab-field-2"     # face roles hold no face values

_ROLE_KINDS = {"dirichlet": Dirichlet, "neumann_zero": NeumannZero}


def _grid_to_dict(grid: Grid) -> dict:
    return {
        "n": grid.n,
        "shape": list(grid.shape),
        "spacing": grid.spacing,
        "origin": list(grid.origin),
    }


def _grid_from_dict(d: dict) -> Grid:
    return Grid(tuple(int(m) for m in d["shape"]), float(d["spacing"]),
                tuple(float(o) for o in d["origin"]))


def _roles_to_dict(roles: dict) -> dict:
    kinds = {cls: kind for kind, cls in _ROLE_KINDS.items()}
    out = {}
    for (axis, side), role in roles.items():
        if type(role) not in kinds:
            raise TypeError(f"unknown role {role!r}")
        out[f"{axis}:{side}"] = {"role": kinds[type(role)]}
    return out


def _roles_from_dict(d: dict) -> dict:
    roles = {}
    for key, spec in d.items():
        axis_s, side = key.split(":")
        kind = spec["role"]
        if kind not in _ROLE_KINDS:
            raise ValueError(f"unknown role kind {kind!r}")
        roles[(int(axis_s), side)] = _ROLE_KINDS[kind]()
    return roles


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
        "grid": _grid_to_dict(field.grid),
        "faces": _roles_to_dict(field.roles),
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
    grid = _grid_from_dict(header["grid"])
    roles = _roles_from_dict(header["faces"])
    values = np.load(base_path + ".npy")
    return ScalarField(grid, values, roles)
