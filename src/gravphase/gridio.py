"""Load/store for scalar grid data: raw little-endian float64 payload with a
JSON sidecar header.  The flat payload is written x-fastest (Fortran order
for arrays indexed [ix, iy, iz])."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HEADER_SUFFIX = ".json"


def save_scalar_grid(path, values: np.ndarray, box: float, units: str = "", mass: float | None = None) -> None:
    path = Path(path)
    values = np.asarray(values, dtype="<f8")
    n = values.shape[0]
    if values.shape != (n, n, n):
        raise ValueError("expected a cubic N^3 array")
    header = {
        "N": int(n),
        "L": float(box),
        "units": units,
        "mass": None if mass is None else float(mass),
        "dtype": "<f8",
        "order": "x-fastest",
    }
    path.write_bytes(values.ravel(order="F").tobytes())
    Path(str(path) + HEADER_SUFFIX).write_text(json.dumps(header, indent=2) + "\n")


def read_header(path) -> dict:
    """The JSON sidecar header of the grid file at `path`."""
    return json.loads(Path(str(path) + HEADER_SUFFIX).read_text())


def load_scalar_grid(path):
    """Returns (values, box, header_dict)."""
    path = Path(path)
    header = read_header(path)
    n = int(header["N"])
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.size != n**3:
        raise ValueError(f"payload has {raw.size} values, header says {n ** 3}")
    values = raw.reshape((n, n, n), order="F").copy()
    return values, float(header["L"]), header
